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

/// One damped Newton solve at fixed assembler settings.  Returns true on
/// convergence; x holds the final iterate either way.  On return the
/// assembler's residual/charge state is consistent with the final x
/// (convergence is detected *before* applying a step), so callers never
/// need to re-assemble at the solution.
bool newtonSolve(Assembler& assembler, linalg::Vector& x,
                 const NewtonOptions& options);

/// DC solve ladder: plain Newton, then gmin stepping, then source stepping.
/// Resets and fills the workspace SolveReport (outcome, iterations, deepest
/// homotopy rung, final residual, pivot fallbacks, singular/non-finite
/// flags) for successful and failed solves alike.
bool dcSolveLadder(Assembler& assembler, linalg::Vector& x,
                   const DcOptions& options);

/// Throws the SampleFailure subclass matching `report.outcome`:
/// NonFiniteError / SingularMatrixError / ConvergenceError, so campaign
/// failure classes follow the solve outcome, not the call site.
[[noreturn]] void throwSolveFailure(const SolveReport& report,
                                    const std::string& what, int iterations);

OperatingPoint packSolution(const Circuit& circuit, const linalg::Vector& x);
linalg::Vector unpackGuess(const Circuit& circuit, const OperatingPoint& op);

/// Statistical-tier warm-start seam of the transient driver.  The default
/// state is inert: a zero-initialized TransientControls reproduces the
/// historical code path bit for bit.
struct TransientControls {
  /// Seed for the t = 0 DC ladder (previous sample's DC solution); null or
  /// size-mismatched falls back to the zero guess.
  const linalg::Vector* dcWarmStart = nullptr;
  /// Receives the converged t = 0 DC solution (the state worth handing to
  /// the NEXT sample as dcWarmStart); null skips the copy.
  linalg::Vector* dcSolutionOut = nullptr;
  /// Linear step predictor: seed each trapezoidal step's Newton from
  /// x + (x - xPrev) * h/hPrev instead of the constant x.  Halving retries
  /// always fall back to the constant predictor.
  bool predictiveSteps = false;
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
/// recorded into `out` (reset first; capacity reused).  Scratch vectors
/// live in the assembler's workspace, so a warm session transient performs
/// no per-run allocations beyond waveform growth past prior capacity.
void runTransient(Assembler& assembler, const TransientOptions& options,
                  Waveform& out, const TransientControls& controls = {});

}  // namespace vsstat::spice::detail

#endif  // VSSTAT_SPICE_SOLVER_CORE_HPP
