// Persistent per-circuit solver session: the one place DC operating
// points, DC sweeps, and transients run.
//
// A session captures the per-topology solver state -- MNA pattern capture,
// symbolic fill analysis, workspace allocation -- once and reuses it
// across every analysis it runs, which is what the same topology solved
// thousands of times needs (Monte Carlo campaigns, DC sweeps, yield
// indicators).  Device cards may be rebound between runs
// (MosfetElement::rebind) because the MNA stamp pattern is bias- and
// parameter-independent by contract.  The free functions in analysis.hpp
// are one-shot sessions with default options.  Every MOSFET is evaluated
// and stamped by the assembler's device bank (spice/device_bank.hpp).
//
// Numerics contract: each solve resets the workspace factorization's pivot
// order first, so every analysis is bit-identical to the same analysis on
// a session freshly built over a freshly built circuit.  This is what lets
// the build-once/rebind-per-sample campaign path (sim::CampaignSession)
// assert bit-identical metrics against rebuilding the fixture per sample,
// and it keeps campaign results independent of which worker session
// evaluated which sample.
//
// SessionOptions::numerics == NumericsMode::fast opts out of the
// bit-identity half of that contract only: banked VS evaluation runs the
// vectorized kernel pipeline, whose results differ from reference in the
// last ulps (tolerance-tested).  Determinism is unchanged -- a fast session
// still produces the same bits for the same inputs on every run and every
// worker.
//
// SessionOptions::solver == SolverMode::reusePivot opts out of the other
// half: instead of re-pivoting per solve, the session derives ONE canonical
// pivot order + symbolic fill from the as-built circuit at construction and
// restores it at every solve boundary, so every solve skips the dense
// partial-pivot search and the symbolic pass (SparseLu::
// refactorReusingPivots, guarded by the growth/zero-pivot monitor).
// Because the canonical order depends only on the as-built circuit -- never
// on which sample a solve belongs to or which solve ran before -- results
// remain deterministic and bit-identical across thread counts and session
// assignments; only the Newton trajectory differs from fresh mode
// (statistically equivalent, tolerance-tested like fast numerics).  The two
// axes compose freely.
//
// Solve policy: the session alone decides how a solve runs.  Its three
// axes are fixed at construction (SessionOptions), every solve's Newton
// settings and transient truncation tolerance come from one private
// function of the tier and the rescue rung (solveControls), and the
// rescue rungs themselves are session calls (beginAttempt / endSample)
// that sim::runSampleWithRescue replays a failed sample through.  No
// analysis takes Newton options.
#ifndef VSSTAT_SPICE_SESSION_HPP
#define VSSTAT_SPICE_SESSION_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse_lu.hpp"
#include "models/device.hpp"
#include "spice/analysis.hpp"
#include "spice/circuit.hpp"
#include "spice/fault_injection.hpp"
#include "spice/solve_report.hpp"
#include "spice/waveform.hpp"

namespace vsstat::spice {

namespace detail {
class Assembler;
struct TransientControls;
}

/// Third orthogonal campaign axis (alongside models::NumericsMode and
/// linalg::SolverMode): which accuracy contract the session's solves honor.
enum class ToleranceTier : std::uint8_t {
  /// Default: the per-sample contract.  Every analysis starts from the
  /// documented cold state (zero guess + homotopy ladder), so results are
  /// bit-identical (reference/fresh) or 1e-8-tolerance-contracted
  /// (fast/reusePivot) against a default-option session, sample by sample.
  perSample,
  /// Campaign-estimator contract: analyses may warm-start from previous
  /// samples' converged states (SimSession warm slots); sweep levels seed
  /// Newton from a quadratic extrapolation of the last converged levels,
  /// corrected by the previous sample's trajectory on the same level grid
  /// (dcSweepNodes); transient steps seed from the previous sample's
  /// accepted waveform plus this sample's running offset (runTransient's
  /// reference-plus-offset predictor); transient steps hold the looser
  /// truncation tolerance kStatisticalTransientLteVolts; and Newton
  /// tolerances relax 10x.  Every per-sample value remains deterministic
  /// -- a fixed warm-start chain produces the same bits on every run and
  /// every worker -- but is no longer individually comparable to a cold
  /// solve; the accuracy contract moves to the ESTIMATOR
  /// (mean/sigma/quantile/yield within N Monte Carlo standard errors of a
  /// perSample run; see ARCHITECTURE.md "Session modes").  Not for
  /// debugging or bit-identity comparisons.
  statistical,
};

[[nodiscard]] inline const char* toString(ToleranceTier tier) noexcept {
  return tier == ToleranceTier::statistical ? "statistical" : "per-sample";
}

/// Truncation-error tolerance the transient step control holds every step
/// to on the node voltages, per tier [V].  Per sample: FO3 gate delays at
/// a 5 ps largest step land within 3e-4 of their 0.01 ps-step values
/// (tests/spice/test_transient_steps.cpp).  Statistical: 8x looser; the
/// trapezoidal step scales with the cube root of the tolerance, so steps
/// run about 2x longer -- the error of the doubled fixed step this tier
/// used to take, far below the Monte Carlo standard errors its estimator
/// contract is stated against.
inline constexpr double kTransientLteVolts = 1.5e-4;
inline constexpr double kStatisticalTransientLteVolts =
    8.0 * kTransientLteVolts;

struct SessionOptions {
  /// Numerics contract of the device bank's MOSFET evaluation
  /// (models::NumericsMode, spice/device_bank.hpp).  `reference` (default)
  /// pins every analysis bit-identical to the free functions; `fast`
  /// batches the VS chain's transcendentals through the vectorized kernels
  /// of util/simd_math_kernels.inc -- deterministic and tolerance-checked
  /// against reference, but NOT bit-identical to it.
  models::NumericsMode numerics = models::NumericsMode::reference;
  /// Pivot policy of the workspace factorization (linalg::SolverMode).
  /// `fresh` (default) re-pivots per solve, pinning every analysis
  /// bit-identical to the free functions; `reusePivot` amortizes one
  /// canonical pivot order + symbolic fill across all of the session's
  /// solves (breakdown-monitored), trading bit-identity with the free
  /// functions for throughput while staying deterministic and
  /// thread-count-independent.  Composes with `numerics` -- the two axes
  /// gate independent halves of the bit-identity contract.
  linalg::SolverMode solver = linalg::SolverMode::fresh;
  /// Accuracy tier of the session's solves (ToleranceTier).  `perSample`
  /// (default) keeps the cold-start per-sample contract; `statistical`
  /// enables warm-started, relaxed-tolerance solves under the
  /// estimator-level contract.  Orthogonal to `numerics` and `solver`.
  ToleranceTier tier = ToleranceTier::perSample;
  /// Test-only deterministic fault schedule (spice/fault_injection.hpp),
  /// shared across the campaign's worker sessions.  Null (default) leaves
  /// every injection site inert.
  std::shared_ptr<const FaultInjector> faultInjector = nullptr;
};

/// One recorded node of a DC sweep (SimSession::dcSweepNodes): the node's
/// voltage at every level lands in `*out` (cleared first).
struct SweepProbe {
  NodeId node = kGround;
  std::vector<double>* out = nullptr;
};

class SimSession {
 public:
  /// Binds to `circuit` and captures its MNA pattern.  The circuit must
  /// outlive the session; its topology must not change afterwards (device
  /// rebinding and source retuning are fine).
  explicit SimSession(Circuit& circuit, SessionOptions options = {});
  ~SimSession();

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  [[nodiscard]] Circuit& circuit() noexcept { return *circuit_; }

  /// DC operating point from a zero guess; throws ConvergenceError when
  /// every homotopy fails.
  [[nodiscard]] OperatingPoint dcOperatingPoint();

  /// Warm-started DC operating point.
  [[nodiscard]] OperatingPoint dcOperatingPoint(const OperatingPoint& guess);

  /// DC sweep of a named voltage source for probe-node consumers
  /// (VTC/butterfly loops): each level warm-starts from the previous
  /// level's solution, and only the probed nodes' voltages per level are
  /// recorded.  The source's waveform is restored afterwards.
  /// Allocation-free in steady state (the records' capacity is reused).
  void dcSweepNodes(const std::string& sourceName,
                    const std::vector<double>& levels,
                    std::span<const SweepProbe> probes);

  /// One-probe form of dcSweepNodes.
  void dcSweepNode(const std::string& sourceName,
                   const std::vector<double>& levels, NodeId probeNode,
                   std::vector<double>& out) {
    const SweepProbe probe{probeNode, &out};
    dcSweepNodes(sourceName, levels, {&probe, 1});
  }

  /// Transient analysis (the t = 0 operating point included).
  [[nodiscard]] Waveform transient(const TransientOptions& options);

  /// Transient analysis into a caller-owned record (cleared first, capacity
  /// reused) -- the allocation-free variant for campaign inner loops.
  /// Sample-for-sample identical to the overload above.
  void transient(const TransientOptions& options, Waveform& out);

  /// Eagerly re-derives the device bank's cached lane state after a rebind
  /// pass (sim::CampaignSession calls this per sample, hoisting the refresh
  /// out of the Newton loop).  Lazy sync inside the assembler makes this an
  /// optimization, not a correctness requirement.
  void syncDeviceBank();

  /// Banked MOSFET lanes (0 for a MOSFET-free circuit): telemetry for
  /// tests and benches that assert every device is banked.
  [[nodiscard]] std::size_t deviceBankLaneCount() const noexcept;

  /// Workspace-factorization counters: proof that a solver mode is actually
  /// engaged (tests) and visibility into breakdown-fallback frequency
  /// (benches).  reusePivot sessions show ~flat fullFactors after priming;
  /// fresh sessions grow it by one per solve.
  struct SolverTelemetry {
    std::uint64_t fullFactors = 0;     ///< analyze + partial-pivot passes
    std::uint64_t fastRefactors = 0;   ///< structure-reusing refactors
    std::uint64_t pivotFallbacks = 0;  ///< reuse-monitor breakdowns
    bool pivotSnapshotPrimed = false;  ///< canonical order captured
    // Sparse-factor shape and cost: how much fill the fill-reducing order
    // admitted on this topology, and where the full-path time went.  The
    // micros are cumulative wall time over the session (ordering runs once
    // per pattern; full factors once per fresh solve plus breakdowns), and
    // the two timers are disjoint: fullFactorMicros excludes the ordering.
    std::size_t patternNnz = 0;        ///< structural nonzeros of A
    std::size_t factorNnz = 0;         ///< structural nonzeros of L+U
    double fillRatio = 0.0;            ///< factorNnz / patternNnz
    std::uint64_t orderingMicros = 0;
    std::uint64_t fullFactorMicros = 0;
    /// Structured diagnostics of the most recent solve (DC point, sweep
    /// level, or transient), for successful and failed solves alike.
    SolveReport lastSolve;
  };
  [[nodiscard]] SolverTelemetry solverTelemetry() const noexcept;

  // --- rescue ladder (sim::runSampleWithRescue) -----------------------------
  // The session owns its rescue rungs.  Attempt 0 of a sample runs the
  // baseline the session was built with (SessionOptions); retry k applies
  // rung k on top of it:
  //
  //   1. hardened Newton    -- 3x the iteration budget, a 0.25x update
  //      clamp (heavier damping); the gmin/source-stepping homotopy reruns
  //      on every rung, as it is part of every solve;
  //   2. fresh pivoting     -- reusePivot baselines only: re-derive the
  //      pivot order from this sample's own values;
  //   3. reference numerics -- fast baselines only: the reference
  //      evaluation chain in place of the vectorized kernels;
  //   4. all of the above combined, when rung 2 or 3 exists.
  //
  // Retries run the perSample tier, so a rung behaves the same in either
  // tier.  The ladder depends only on the baseline -- never on the
  // failure, the thread or the schedule -- so every worker session walks
  // the same rungs.

  /// Applies attempt `attempt`'s rung and arms the fault injector (if any)
  /// for (sampleIndex, attempt).  Returns false, changing nothing, when
  /// the ladder has no rung `attempt`.
  [[nodiscard]] bool beginAttempt(std::size_t sampleIndex, int attempt);
  /// Restores the baseline and disarms the sample context, so the next
  /// sample this session serves starts from the state every other session
  /// has.  Warm slots are kept -- only their use is gated by the tier --
  /// so the statistical warm chain resumes deterministically.
  void endSample();

  /// Pivot policy of the current attempt (tests).
  [[nodiscard]] linalg::SolverMode solverMode() const noexcept {
    return solverMode_;
  }
  /// Rescue attempt of the armed sample (0 on the first attempt and
  /// outside campaigns) -- for metric code consulting
  /// FaultInjector::metricThrowAt.
  [[nodiscard]] int sampleAttempt() const noexcept;

  // --- statistical-tier warm starts ------------------------------------------
  // Under ToleranceTier::statistical every top-level analysis entry
  // (dcOperatingPoint from zero, dcSweepNodes, transient) consumes one warm
  // SLOT in call order: slot i seeds analysis i from the converged state
  // the PREVIOUS sample's analysis i stored there.  Campaign samples run a
  // fixed analysis sequence, so the cursor-aligned slots always pair like
  // with like.  Under perSample the slots are inert.

  /// Marks the start of a sample's analysis sequence: rewinds the warm
  /// cursor to slot 0.  sim::CampaignSession calls this from every rebind.
  void beginSampleWarmStart() noexcept { warmCursor_ = 0; }
  /// Invalidates every warm slot (deterministic cold-start rule: block
  /// boundaries of a blocked campaign, and rescue-ladder engagement).
  void clearWarmStarts() noexcept;

  /// Cumulative Newton-iteration counters over the session's lifetime.
  /// Campaign wrappers diff them around a sample to aggregate per-campaign
  /// mean iterations/sample and the warm-start hit rate (mc::McResult).
  struct IterationTelemetry {
    std::uint64_t newtonIterations = 0;  ///< summed SolveReport::iterations
    std::uint64_t solves = 0;            ///< top-level + sweep-level solves
    std::uint64_t warmStartHits = 0;     ///< solves seeded from a warm slot
    std::uint64_t warmStartOpportunities = 0;  ///< statistical-tier entries
  };
  [[nodiscard]] const IterationTelemetry& iterationTelemetry() const noexcept {
    return iterTelemetry_;
  }

 private:
  /// Resets the workspace LU pivot state at a solve boundary.  Fresh mode
  /// forgets the pivot order so this solve re-derives it from its own
  /// first iterate (one full pivoting pass per dcOperatingPoint /
  /// transient call, exactly as on a freshly built session); reuse-pivot
  /// mode restores the canonical snapshot instead, so the solve runs on
  /// the primed order no matter what a breakdown in an earlier solve did.
  /// Buffers stay at capacity either way -- no steady-state allocation.
  void resetNumerics() noexcept;

  /// reusePivot priming: derives the canonical pivot order from the
  /// as-built circuit at the zero iterate (a sample-independent state, so
  /// identically-built worker sessions all derive the same order) and
  /// snapshots it.  A circuit whose zero-iterate Jacobian is singular even
  /// under a gmin shunt leaves the session unprimed: solves then fall back
  /// to fresh-style per-solve pivoting, still deterministically.
  void primePivotReuse();

  /// Switches the pivot policy in place.  Fresh -> reusePivot reuses the
  /// snapshot primed at construction (repriming only if none exists);
  /// reusePivot -> fresh makes every solve re-derive its own order.
  void applySolverMode(linalg::SolverMode mode);

  /// The one source of every solve's settings: Newton's iteration budget
  /// and update clamp (80 and 0.4 V, or 240 and 0.1 V on a hardened
  /// rung), its convergence tolerances (1e-7 V and 1e-9 A, 10x looser
  /// under the statistical tier) and the transient step control's
  /// truncation tolerance (kTransientLteVolts or
  /// kStatisticalTransientLteVolts).
  [[nodiscard]] detail::TransientControls solveControls() const noexcept;

  /// One sample-to-sample warm-start slot (see beginSampleWarmStart).
  struct WarmSlot {
    linalg::Vector x;
    /// Transient slots also carry the previous sample's accepted-step
    /// trajectory (the reference waveform for the step predictor).
    TransientTrajectory traj;
    bool valid = false;
  };
  /// Next slot in analysis-call order, or nullptr under perSample.
  [[nodiscard]] WarmSlot* nextWarmSlot();
  /// Accumulates one top-level solve into the iteration telemetry.
  void noteSolve(int iterations, bool warmSeeded, bool opportunity) noexcept;

  Circuit* circuit_;
  std::unique_ptr<detail::Assembler> assembler_;
  // Baseline (rung 0, what endSample restores), then the current attempt.
  models::NumericsMode baseNumerics_;
  linalg::SolverMode baseSolver_;
  ToleranceTier baseTier_;
  linalg::SolverMode solverMode_;
  ToleranceTier tier_;
  bool hardened_ = false;
  linalg::Vector sweepX_;  ///< persistent sweep iterate (dcSweepNodes)
  linalg::Vector sweepPrevX_;   ///< previous converged level (extrapolation)
  linalg::Vector sweepPrev2X_;  ///< two-back converged level (quadratic)
  TransientTrajectory trajScratch_;  ///< in-flight transient recording
  std::vector<WarmSlot> warmSlots_;
  std::size_t warmCursor_ = 0;
  IterationTelemetry iterTelemetry_;
};

}  // namespace vsstat::spice

#endif  // VSSTAT_SPICE_SESSION_HPP
