// mayo/linalg -- allocation-free in-place kernels for the batched hot path:
// the linear-model yield sweep (gemv_into) and the AC system assembly
// (assemble_complex_into).
//
// Every routine writes into caller-owned storage; none allocates.  Bitwise
// contract: `gemv_into` accumulates each output element in ascending column
// order, matching the scalar inner-product loops it replaces
// (SampleSet::dot, LinearYieldModel's eq.-17 sweep), so porting a consumer
// from per-sample dots to one gemv cannot change a single result bit.
#pragma once

#include "linalg/block.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mayo::linalg {

/// y[r] = sum_c m(r, c) * x[c], accumulated in ascending c.
/// `x` must have m.cols() entries, `y` m.rows() entries.
void gemv_into(ConstMatrixView m, const double* x, double* y);

/// Checked Vector form of gemv_into; y must be pre-sized to m.rows().
void gemv_into(ConstMatrixView m, const Vector& x, Vector& y);

/// a[i] = complex(g[i], omega * c[i]) for `n` entries: assembles the AC
/// system A = G + j omega C from the session's frequency-independent real
/// stamps in one pass over caller storage.  Works on raw buffers so the
/// same kernel serves matrices (n = rows * cols) and vectors.
void assemble_complex_into(const double* g, const double* c, double omega,
                           std::complex<double>* a, std::size_t n);

/// Checked matrix form: a = g + j omega c; all three must share one shape.
void assemble_complex_into(const Matrixd& g, const Matrixd& c, double omega,
                           Matrixc& a);

}  // namespace mayo::linalg
