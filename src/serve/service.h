#ifndef ARMNET_SERVE_SERVICE_H_
#define ARMNET_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tabular.h"
#include "data/feature_space.h"
#include "serve/batch_policy.h"
#include "serve/circuit_breaker.h"
#include "serve/drift_monitor.h"
#include "serve/shadow.h"
#include "util/clock.h"
#include "util/status.h"
#include "util/sync.h"

namespace armnet::serve {

// In-process prediction service (DESIGN.md §11, §13).
//
// Owns the request path from raw string cells to a logit, hardened in the
// style of production model servers (Clipper, TF-Serving):
//
//   validate   arity / numeric-parse errors -> kInvalidArgument, before the
//              request costs anything downstream
//   map        OOV categoricals -> the reserved UNK id, numericals clamped
//              to the train-time [lo, hi] range; both merely counted, never
//              fatal — a trained model must survive data it didn't train on
//   queue      bounded micro-batching queue; admission control rejects with
//              kOverloaded instead of growing without bound, a high-
//              watermark shed policy evicts the newest-deadline entries
//              under sustained overload, and requests whose deadline passed
//              in the queue return kDeadlineExceeded without ever being
//              forwarded
//   forward    N worker threads (ServeOptions::num_workers) drain the queue
//              concurrently; batch accumulation adapts to the measured p99
//              against ServeOptions::latency_budget_seconds (see
//              serve/batch_policy.h); the forward runs under NoGradGuard
//              and the breaker, non-finite logits count as failures
//   degrade    when the breaker is open or the forward failed: fallback
//              model if configured, else the train-prior logit — a typed
//              answer in every case
//
// Weights hot-reload through the CRC-framed envelope. With a warm standby
// configured, `ReloadModel` stages `LoadState` into the idle model copy off
// the serving path and publishes it with an RCU-style swap — workers never
// wait on a reload, and a corrupt file leaves the active copy untouched.
// Without a standby the in-place reload quiesces the forwards for the
// duration of the stage, as AttachEmbeddingStore always does.
//
// Drift monitoring and shadow deployment (DESIGN.md §15) close the loop
// around the served model. When the serving artifact carries a
// DriftReference, a DriftMonitor tracks sliding-window per-field OOV/clamp
// rates and score-distribution PSI against it, updated and evaluated only
// on the worker drain path (the `drift-drain` lint rule keeps this out of
// Submit); a latched alert degrades Ready() and surfaces as incidents and
// in DriftMetricsSnapshot(). A candidate model staged through
// LoadShadowModel sees a mirrored fraction of drained batches AFTER the
// primary completions are delivered: shadow latency never counts against a
// primary deadline and shadow failures never touch the circuit breaker.
// PromoteShadow publishes the candidate through the normal reload path only
// when the accumulated |Δlogit| / disagreement evidence sits inside
// ShadowOptions bounds, and a drift alert auto-dismisses the candidate (its
// evidence was gathered against traffic that no longer matches training).
//
// Every request ends in exactly one terminal counter, so
//   submitted == rejected_invalid + rejected_overload + shed + expired
//              + completed_ok + degraded_fallback + degraded_prior + failed
// holds at quiescence — the accounting identity the E2E test, the soak
// harness, and the bench all assert. Counters are sharded per worker (plus
// one submit-side shard) and merged on read, so worker threads never
// contend on a global counters mutex.
//
// Lock discipline (DESIGN.md §12): mutexes are never nested except where
// stated —
//   reload_mutex_    serializes ReloadModel calls; taken before model_mutex_
//   model_mutex_     the RCU slot bookkeeping (active index, per-slot
//                    reader counts, quiesce flag) — NOT the forward itself:
//                    forwards run outside the lock on a slot they hold a
//                    reader reference to
//   queue_mutex_     the micro-batch queue, running_, and the readiness
//                    hysteresis state
//   shutdown_mutex_  serializes Shutdown(); taken before queue_mutex_
//   per-shard mutex  one CounterShard each; leaves
//   shadow_mutex_    serializes shadow staging against mirror forwards;
//                    never nested with the mutexes above (PromoteShadow
//                    releases it before entering ReloadModel), only the
//                    counter-shard / evaluator leaves are taken under it
// incidents_mutex_, the drift monitor's internal mutexes, the shadow
// evaluator's mutex, and the policy's internal mutex are leaves. Every
// guarded field and lock contract below is enforced at compile time by the
// `thread-safety` preset.
//
// The service puts its models into eval mode (SetTraining(false)) for its
// whole lifetime — per-forward mode guards would be a write race between
// workers sharing one module tree.

// Typed per-request outcome. Never a crash: hostile input maps to one of
// these.
enum class ServeCode {
  kOk,
  kInvalidArgument,   // malformed request (arity, unparsable numeric cell)
  kOverloaded,        // admission control: queue at capacity, or shed
  kDeadlineExceeded,  // deadline passed before the forward ran
  kUnavailable,       // the service shut down before answering
};

const char* ServeCodeName(ServeCode code);

struct PredictResult {
  ServeCode code = ServeCode::kUnavailable;
  std::string message;     // diagnostic for non-kOk outcomes
  float logit = 0;
  float probability = 0;   // sigmoid(logit), kOk only
  bool degraded = false;   // answered by the fallback/prior, not the model
  int oov_fields = 0;      // categorical cells mapped to UNK
  int clamped_fields = 0;  // numerical cells clamped into [lo, hi]
  // Submit-to-terminal-completion time in service-clock seconds (0 for
  // synchronous rejections). The open-loop bench builds its p50/p99 from
  // this, so the numbers are service-side, not Wait()-scheduling noise.
  double latency_seconds = 0;
};

// Handle for one submitted request; Wait() blocks until a terminal result.
class PendingPrediction {
 public:
  const PredictResult& Wait() ARMNET_EXCLUDES(mutex_);
  bool done() ARMNET_EXCLUDES(mutex_);

 private:
  friend class PredictionService;

  void Complete(PredictResult result) ARMNET_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar cv_;
  bool done_ ARMNET_GUARDED_BY(mutex_) = false;
  PredictResult result_ ARMNET_GUARDED_BY(mutex_);

  // Request state owned by the service side. Deliberately unguarded: the
  // submitting thread writes these before the handle enters the queue, and
  // they are only read after it leaves (by the draining worker) or while it
  // sits in the queue (by the shed scan, under queue_mutex_) — ownership
  // hands off through queue_mutex_'s push/pop ordering, never shared.
  std::vector<int64_t> ids_;
  std::vector<float> values_;
  double deadline_ = 0;  // absolute, service-clock seconds
  double submitted_at_ = 0;
  int oov_fields_ = 0;
  int clamped_fields_ = 0;
  // Which fields degraded (indices into the FeatureSpace), carried to the
  // drain path so the drift monitor can attribute events per column.
  std::vector<int32_t> oov_field_indices_;
  std::vector<int32_t> clamped_field_indices_;
};

struct ServeOptions {
  int num_workers = 1;            // drain threads when start_worker is true
  int64_t queue_capacity = 256;   // admission-control bound
  int64_t max_batch_size = 64;    // micro-batch cap per forward
  // Upper bound on the adaptive batch-accumulation wait. The controller
  // (serve/batch_policy.h) moves the actual wait between 0 and this bound
  // from the measured p99; workers never idle-poll on it — idle workers
  // block on the queue CondVar until an enqueue.
  double batch_wait_seconds = 0.002;
  // The p99 target the adaptive controller defends: accumulation grows only
  // while the windowed p99 leaves headroom against this budget.
  double latency_budget_seconds = 0.050;
  double default_deadline_seconds = 1.0;
  // Load shedding: when the queue grows past this many entries, the
  // newest-deadline requests are evicted (completed kOverloaded) until the
  // queue is back at the watermark — under sustained overload the requests
  // closest to their deadline keep their place, and the shed clients learn
  // their fate immediately instead of timing out. -1 disables shedding
  // (the only backpressure is capacity rejection).
  int64_t shed_watermark = -1;
  // Readiness hysteresis: Ready() reports false once the queue reaches
  // capacity and true again only after it drains to this level, so
  // readiness cannot flap at exactly queue_capacity. -1 = capacity / 2.
  int64_t ready_low_watermark = -1;
  // Breaker-open and non-finite batches degrade to the fallback model, or
  // to the train-prior logit when none is configured.
  CircuitBreaker::Options breaker;
  // When false no worker thread runs; tests call DrainOnce() to process the
  // queue deterministically.
  bool start_worker = true;
  // Drift-monitor windows and alert thresholds (active only when the
  // FeatureSpace carries a DriftReference) and shadow-deployment mirroring
  // and promotion bounds.
  DriftOptions drift;
  ShadowOptions shadow;
};

// Aggregate service counters; every submitted request lands in exactly one
// of the terminal buckets (see the accounting identity above).
struct ServeCounters {
  int64_t submitted = 0;
  int64_t rejected_invalid = 0;
  int64_t rejected_overload = 0;
  int64_t shed = 0;  // evicted past the high watermark (newest deadline)
  int64_t expired = 0;
  int64_t completed_ok = 0;
  int64_t degraded_fallback = 0;
  int64_t degraded_prior = 0;
  int64_t failed = 0;  // kUnavailable terminals (shutdown)
  // Non-terminal observability counters.
  int64_t oov_fields = 0;
  int64_t clamped_fields = 0;
  int64_t batches = 0;
  int64_t reloads_ok = 0;
  int64_t reloads_rejected = 0;
  // Drift + shadow observability (non-terminal: shadowing and drift never
  // change a request's outcome, so the accounting identity is untouched).
  int64_t drift_alerts = 0;
  int64_t shadow_loads = 0;
  int64_t shadow_loads_rejected = 0;
  int64_t shadow_mirrored_batches = 0;
  int64_t shadow_mirrored_rows = 0;
  int64_t shadow_failures = 0;  // shadow forwards with non-finite logits
  int64_t shadow_promotions_ok = 0;
  int64_t shadow_promotions_refused = 0;
  int64_t shadow_dismissed = 0;

  int64_t Terminal() const {
    return rejected_invalid + rejected_overload + shed + expired +
           completed_ok + degraded_fallback + degraded_prior + failed;
  }

  void MergeFrom(const ServeCounters& other);
};

class PredictionService {
 public:
  // `model` must outlive the service (non-owning; the trainer or test owns
  // module lifetime). `clock` may be null for a service-owned SteadyClock.
  // `fallback` is the optional lightweight degradation model (e.g. LR);
  // `standby` is the optional warm-standby copy (same architecture as
  // `model`) that makes ReloadModel an off-path stage + RCU swap instead of
  // an in-place quiesce. `shadow` is the optional third model slot (same
  // architecture) that LoadShadowModel stages candidates into. All
  // non-owning. The service switches every model it was given into eval
  // mode for its lifetime.
  PredictionService(models::TabularModel* model, data::FeatureSpace space,
                    ServeOptions options, Clock* clock = nullptr,
                    models::TabularModel* fallback = nullptr,
                    models::TabularModel* standby = nullptr,
                    models::TabularModel* shadow = nullptr);
  // Equivalent to Shutdown().
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  // Stops accepting work, joins the workers, and completes every
  // still-queued request with kUnavailable, so no Wait() ever hangs.
  // Idempotent and safe to race with concurrent Submit calls: a submission
  // that loses the race gets a typed kUnavailable, never a lost ticket.
  void Shutdown() ARMNET_EXCLUDES(shutdown_mutex_, queue_mutex_);

  // Validates, maps, and enqueues one request. Terminal rejections
  // (invalid, overloaded, shed, already-expired) complete the returned
  // ticket before it is handed back. `deadline_seconds` < 0 uses the
  // default; == 0 expires immediately.
  std::shared_ptr<PendingPrediction> Submit(
      const std::vector<std::string>& cells, double deadline_seconds = -1)
      ARMNET_EXCLUDES(queue_mutex_);

  // Blocking convenience: Submit + Wait. With start_worker=false the queue
  // must be drained from another thread (or use Submit + DrainOnce).
  PredictResult Predict(const std::vector<std::string>& cells,
                        double deadline_seconds = -1);

  // Processes at most one micro-batch from the queue; returns the number of
  // requests it completed. The manual-mode pump for deterministic tests.
  int64_t DrainOnce() ARMNET_EXCLUDES(queue_mutex_, model_mutex_);

  // Atomically replaces the model weights from a CRC-framed state file.
  // Any validation failure leaves the currently-serving weights untouched,
  // records an incident, and returns the error; success resets the circuit
  // breaker. With a warm standby the stage runs entirely off the serving
  // path and publishing is an RCU swap; workers never wait on it. Reloading
  // also detaches any quantized embedding store from the staged slot (the
  // store was exported against the replaced weights) and records an
  // incident telling the operator to attach a re-exported one.
  Status ReloadModel(const std::string& path)
      ARMNET_EXCLUDES(reload_mutex_, model_mutex_);

  // Opens the mmap-backed quantized embedding store at `path` (serialize-v2
  // kind kStateKindEmbeddingStore) and attaches it to every Embedding in
  // the ACTIVE model whose geometry matches; subsequent no-grad forwards
  // dequantize-on-gather from the shared mapping. A corrupt/truncated/
  // mismatched file leaves the model untouched and returns the error. The
  // swap quiesces in-flight forwards (the in-place-reload protocol).
  Status AttachEmbeddingStore(const std::string& path)
      ARMNET_EXCLUDES(reload_mutex_, model_mutex_);

  // Stages a candidate model into the shadow slot from a CRC-framed state
  // file and starts mirroring. A validation failure leaves any previously
  // staged candidate deactivated (its evidence no longer matches the slot's
  // weights) and returns the error. Requires a shadow slot at construction.
  Status LoadShadowModel(const std::string& path)
      ARMNET_EXCLUDES(shadow_mutex_);

  // Publishes the staged candidate through the normal reload path (RCU with
  // a standby) — but only when the mirrored evidence is sufficient
  // (ShadowOptions::min_mirrored_rows) and every delta statistic sits
  // inside its bound. Otherwise returns a typed refusal carrying the
  // evidence, records it as an incident, and keeps mirroring so the
  // operator can gather more data or dismiss.
  Status PromoteShadow()
      ARMNET_EXCLUDES(shadow_mutex_, reload_mutex_, model_mutex_);

  // Deactivates the staged candidate (no-op when none is active). Also
  // invoked automatically on a rising drift alert: delta evidence gathered
  // against drifted traffic is not promotion evidence.
  void DismissShadow(const std::string& reason)
      ARMNET_EXCLUDES(shadow_mutex_);

  bool ShadowActive() const;
  // Accumulated primary-vs-shadow comparison evidence for the current
  // candidate.
  ShadowStats ShadowSnapshot() const;

  // True while any drift alert is latched (also degrades Ready()).
  bool DriftAlertActive() const;
  // Windowed drift state: per-field rates vs baselines, score PSI.
  DriftSnapshotData DriftSnapshot();
  // Drift snapshot flattened to name/value pairs plus the shadow delta
  // statistics (bench_serving's `drift/section` row).
  std::vector<std::pair<std::string, double>> DriftMetricsSnapshot();

  // Liveness: the service accepts submissions (true until shutdown begins).
  bool Alive() const;
  // Readiness: accepting AND likely to answer — breaker closed (half-open
  // still counts as recovering), no latched drift alert, and the queue
  // below the hysteresis band (unready at capacity, ready again only
  // at/below ready_low_watermark).
  bool Ready() ARMNET_EXCLUDES(queue_mutex_);

  // Merged view over all counter shards. The accounting identity holds
  // exactly at quiescence; mid-flight snapshots may observe a submission
  // before its terminal bucket.
  ServeCounters counters() const;
  // counters() as named rows ("serve/submitted", ...) plus the attached
  // embedding-store count; bench_serving's `counters/total` row.
  std::vector<std::pair<std::string, int64_t>> CounterSnapshot() const;
  // Continuous operating-point gauges (adaptive batch wait, windowed p99).
  std::vector<std::pair<std::string, double>> GaugeSnapshot() const;

  // Operator-visible anomalies (rejected reloads, degradation activations).
  std::vector<std::string> incidents() const ARMNET_EXCLUDES(incidents_mutex_);

  CircuitBreaker& breaker() { return breaker_; }
  const data::FeatureSpace& feature_space() const { return space_; }
  const AdaptiveBatchPolicy& batch_policy() const { return policy_; }

 private:
  // One worker's (or the submit path's) slice of the counters. Sharding
  // keeps the drain threads from serializing on one counters mutex; reads
  // merge all shards.
  struct CounterShard {
    mutable Mutex mutex;
    ServeCounters counters ARMNET_GUARDED_BY(mutex);
  };

  void WorkerLoop(int worker_index) ARMNET_EXCLUDES(queue_mutex_);
  // Pops and processes at most one micro-batch, crediting shard
  // `shard_index` (0 = submit/DrainOnce shard, worker i = i + 1; the drift
  // monitor shards follow the same scheme).
  int64_t DrainBatch(int shard_index)
      ARMNET_EXCLUDES(queue_mutex_, model_mutex_);
  // Runs one micro-batch through the model (or the degradation ladder).
  void ProcessBatch(
      const std::vector<std::shared_ptr<PendingPrediction>>& batch,
      int shard_index) ARMNET_EXCLUDES(model_mutex_);
  // Flattens the per-request mapped rows into one forward-ready batch.
  data::Batch AssembleBatch(
      const std::vector<std::shared_ptr<PendingPrediction>>& batch) const;
  // Forwards the assembled batch through `model`; returns false if any
  // logit came back non-finite. Runs interpreted under NoGradGuard. The
  // caller must hold a reader reference on the slot `model` came from (or,
  // for the fallback and shadow, rely on it never being mutated
  // concurrently).
  bool ForwardBatch(models::TabularModel& model,
                    const data::Batch& b, std::vector<float>* logits);
  // Answers `batch` from the fallback model, or with the train-prior logit
  // when there is none (or it too produced non-finite logits).
  void Degrade(const std::vector<std::shared_ptr<PendingPrediction>>& batch,
               CounterShard& shard) ARMNET_EXCLUDES(model_mutex_);
  void CompleteOk(PendingPrediction& pending, float logit, bool degraded);
  void CompleteTerminal(PendingPrediction& pending, ServeCode code,
                        std::string message);
  void RecordIncident(std::string message) ARMNET_EXCLUDES(incidents_mutex_);

  // Drain-path drift bookkeeping: folds the batch's per-field degradation
  // indices (and the primary logits, when the forward produced finite ones)
  // into the monitor's window shard.
  void ObserveDrift(int shard_index,
                    const std::vector<std::shared_ptr<PendingPrediction>>&
                        batch,
                    const std::vector<float>* logits);
  // Evaluates the alert set; raised alerts become incidents + counters and
  // auto-dismiss the shadow, cleared alerts become incidents.
  void HandleDriftEvents(int shard_index)
      ARMNET_EXCLUDES(incidents_mutex_, shadow_mutex_);
  // Off-critical-path shadow mirroring: runs AFTER the batch's primary
  // completions were delivered, deterministically sampled by
  // ShadowOptions::mirror_fraction. Shadow failures feed counters and the
  // evaluator only — never the breaker, never a request outcome.
  void MirrorToShadow(const data::Batch& b,
                      const std::vector<float>& primary_logits,
                      int shard_index) ARMNET_EXCLUDES(shadow_mutex_);

  // RCU reader side: returns the active model with this thread registered
  // as a reader of its slot (blocks only while RunQuiesced runs). The
  // weights of a slot with a nonzero reader count are never mutated —
  // ReloadModel stages only into a quiesced slot — so the forward itself
  // runs without any lock held.
  models::TabularModel* AcquireActiveModel(int* slot)
      ARMNET_EXCLUDES(model_mutex_);
  void ReleaseActiveModel(int slot) ARMNET_EXCLUDES(model_mutex_);
  // The in-place protocol: blocks new readers, waits until no forward holds
  // either slot, runs `mutate(active slot index)`, then lets readers back
  // in. For the no-standby reload and AttachEmbeddingStore, which mutate
  // module state that workers read without a lock.
  void RunQuiesced(const std::function<void(int active)>& mutate)
      ARMNET_EXCLUDES(model_mutex_);

  // Model slots. slots_[0] is the constructor's `model`, slots_[1] the
  // optional standby (null when not configured). The array entries are set
  // once in the constructor; which slot is live is active_index_ under
  // model_mutex_. Pointee mutation is governed by the RCU protocol above,
  // which the annotations cannot express — the soak test under TSan is the
  // dynamic check.
  models::TabularModel* slots_[2];
  // Never reloaded, so never mutated: concurrent degraded forwards through
  // it are pure reads.
  models::TabularModel* fallback_;
  const data::FeatureSpace space_;
  const ServeOptions options_;
  SteadyClock own_clock_;
  Clock* clock_;
  CircuitBreaker breaker_;
  AdaptiveBatchPolicy policy_;

  Mutex reload_mutex_;  // serializes reloads; taken before model_mutex_
  Mutex model_mutex_;
  CondVar model_cv_;
  int active_index_ ARMNET_GUARDED_BY(model_mutex_) = 0;
  int64_t slot_readers_[2] ARMNET_GUARDED_BY(model_mutex_) = {0, 0};
  // True while RunQuiesced drains and blocks readers.
  bool quiescing_ ARMNET_GUARDED_BY(model_mutex_) = false;

  Mutex queue_mutex_;
  CondVar queue_cv_;
  std::deque<std::shared_ptr<PendingPrediction>> queue_
      ARMNET_GUARDED_BY(queue_mutex_);
  bool running_ ARMNET_GUARDED_BY(queue_mutex_) = true;
  // Readiness hysteresis state (see Ready()).
  bool ready_saturated_ ARMNET_GUARDED_BY(queue_mutex_) = false;
  std::atomic<bool> alive_{true};

  Mutex shutdown_mutex_;
  std::vector<std::thread> workers_ ARMNET_GUARDED_BY(shutdown_mutex_);

  // shards_[0] is the submit-side shard (also the manual DrainOnce shard);
  // worker i uses shards_[i + 1]. Sized once in the constructor.
  std::vector<std::unique_ptr<CounterShard>> shards_;

  mutable Mutex incidents_mutex_;
  std::vector<std::string> incidents_ ARMNET_GUARDED_BY(incidents_mutex_);

  // Quantized stores attached to the active model since the last reload,
  // for the serve/embedding_stores_attached counter (leaf mutex).
  mutable Mutex store_mutex_;
  int64_t stores_attached_ ARMNET_GUARDED_BY(store_mutex_) = 0;

  // Drift monitor (always constructed; a space without a DriftReference
  // yields a disabled monitor whose methods are cheap no-ops). Internally
  // sharded like the counters; all its mutexes are leaves.
  std::unique_ptr<DriftMonitor> drift_;

  // Shadow deployment. The candidate's weights are mutated by
  // LoadShadowModel, so shadow_mutex_ is held across both the stage and
  // every mirror forward — mutual exclusion, not a reader protocol; the
  // mirror rate is sampled, so serializing mirrors across workers is
  // acceptable. shadow_active_ is the cheap pre-lock gate (re-checked under
  // the mutex before forwarding).
  models::TabularModel* shadow_slot_;
  mutable Mutex shadow_mutex_;
  std::string shadow_source_path_ ARMNET_GUARDED_BY(shadow_mutex_);
  std::atomic<bool> shadow_active_{false};
  // Deterministic Bresenham-style mirror sampling sequence.
  std::atomic<int64_t> shadow_batch_seq_{0};
  ShadowEvaluator shadow_eval_;  // internally synchronized
};

}  // namespace armnet::serve

#endif  // ARMNET_SERVE_SERVICE_H_
