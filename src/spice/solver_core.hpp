// Internal: the Newton/homotopy/transient solver core behind SimSession
// (session.cpp), the one place an analysis runs -- the free functions in
// analysis.hpp are one-shot sessions.  Not part of the public API.
//
// Determinism contract: given the same Assembler settings, circuit
// parameters, and starting iterate, every function here produces
// bit-identical results whether the assembler/workspace is freshly
// constructed or reused -- provided the workspace factorization was put in
// a solve-boundary state beforehand (the SparseLu pivot order is otherwise
// frozen from whatever solve last ran full pivoting).  The boundary state
// depends on the session's SolverMode: fresh sessions reset() so each
// solve re-derives its own pivot order (bit-identical to a session built
// fresh for every solve); reuse-pivot sessions restore the canonical
// pivot snapshot so each solve runs on the same primed order (bit-identical
// across solve orderings and thread counts, but on a different --
// statistically equivalent -- Newton trajectory than fresh).  The solver
// loops themselves are mode-blind: SparseLu::refactor() dispatches on the
// mode installed by the Assembler.
#ifndef VSSTAT_SPICE_SOLVER_CORE_HPP
#define VSSTAT_SPICE_SOLVER_CORE_HPP

#include <string>

#include "spice/analysis.hpp"
#include "spice/assembler.hpp"

namespace vsstat::spice::detail {

/// One solve's Newton settings.  SimSession::solveControls derives them
/// for every solve from its tier and rescue rung; these defaults are the
/// per-sample baseline.
struct NewtonSettings {
  int maxIterations = 80;
  double voltageTolerance = 1e-7;   ///< convergence: max |dV| below this [V]
  double residualTolerance = 1e-9;  ///< convergence: max |F| below this [A]
  double maxUpdate = 0.4;           ///< per-iteration voltage-step clamp [V]
};

/// One damped Newton solve at fixed assembler settings.  Returns true on
/// convergence; x holds the final iterate either way.  On return the
/// assembler's residual/charge state is consistent with the final x
/// (convergence is detected *before* applying a step), so callers never
/// need to re-assemble at the solution.
bool newtonSolve(Assembler& assembler, linalg::Vector& x,
                 const NewtonSettings& settings);

/// DC solve ladder: plain Newton, then gmin stepping, then source stepping,
/// every rung under `newton`.  Resets and fills the workspace SolveReport
/// (outcome, iterations, deepest homotopy rung, final residual, pivot
/// fallbacks, singular/non-finite flags) for successful and failed solves
/// alike.
bool dcSolveLadder(Assembler& assembler, linalg::Vector& x,
                   const NewtonSettings& newton);

/// Throws the SampleFailure subclass matching `report.outcome`:
/// NonFiniteError / SingularMatrixError / ConvergenceError, so campaign
/// failure classes follow the solve outcome, not the call site.
[[noreturn]] void throwSolveFailure(const SolveReport& report,
                                    const std::string& what, int iterations);

/// Node voltages and branch currents of an iterate.
OperatingPoint packSolution(const Circuit& circuit, const linalg::Vector& x);
/// A solve iterate seeded with an operating point's node voltages and
/// branch currents.  Given voltages, the carried device currents start at
/// the converged device currents there (Assembler::seedDeviceCurrents);
/// otherwise everything starts at zero.
linalg::Vector unpackGuess(Assembler& assembler, const OperatingPoint& op);

/// runTransient's session seam: the Newton settings and step
/// control tolerance of the session's tier and rung, and the statistical
/// tier's warm starts (inert when left null).
struct TransientControls {
  /// Newton settings of the t = 0 DC ladder and of every step.
  NewtonSettings newton;
  /// Truncation-error tolerance of every trapezoidal step on the node
  /// voltages [V]: the session's kTransientLteVolts or
  /// kStatisticalTransientLteVolts.
  double lteTolerance = 0.0;
  /// Seed for the t = 0 DC ladder (previous sample's DC solution); null or
  /// size-mismatched falls back to the zero guess.
  const linalg::Vector* dcWarmStart = nullptr;
  /// Receives the converged t = 0 DC solution (the state worth handing to
  /// the NEXT sample as dcWarmStart); null skips the copy.
  linalg::Vector* dcSolutionOut = nullptr;
  /// Previous sample's accepted-step trajectory: when usable, each step's
  /// first iterate becomes ref(tNext) + (x - ref(t)) -- the reference
  /// waveform carried to the new time plus the current sample's running
  /// offset from it.  Beats the local extrapolation because the reference
  /// already contains the waveform's shape; only the (slowly varying)
  /// mismatch offset is predicted constant.  Null disables.
  const TransientTrajectory* trajectoryIn = nullptr;
  /// Receives this run's accepted trajectory (cleared first; t = 0 DC state
  /// included) -- the reference for the NEXT sample.  Null skips recording.
  TransientTrajectory* trajectoryOut = nullptr;
};

/// Full transient run on an existing assembler (t = 0 DC solve included),
/// recorded into `out` (reset first; capacity reused).  Scratch vectors,
/// the breakpoint list and the step history live in the assembler's
/// workspace, so a warm session transient performs no per-run allocations
/// beyond growth past prior capacity.
void runTransient(Assembler& assembler, const TransientOptions& options,
                  Waveform& out, const TransientControls& controls);

}  // namespace vsstat::spice::detail

#endif  // VSSTAT_SPICE_SOLVER_CORE_HPP
