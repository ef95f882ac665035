#include "common/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace hima {

void
Vector::fill(Real value)
{
    std::fill(data_.begin(), data_.end(), value);
}

Real
Vector::sum() const
{
    return std::accumulate(data_.begin(), data_.end(), 0.0);
}

Real
Vector::norm() const
{
    Real acc = 0.0;
    for (Real v : data_)
        acc += v * v;
    return std::sqrt(acc);
}

Real
Vector::max() const
{
    HIMA_ASSERT(!data_.empty(), "max() of empty vector");
    return *std::max_element(data_.begin(), data_.end());
}

Real
Vector::min() const
{
    HIMA_ASSERT(!data_.empty(), "min() of empty vector");
    return *std::min_element(data_.begin(), data_.end());
}

Index
Vector::argmax() const
{
    HIMA_ASSERT(!data_.empty(), "argmax() of empty vector");
    return static_cast<Index>(
        std::max_element(data_.begin(), data_.end()) - data_.begin());
}

void
Matrix::fill(Real value)
{
    std::fill(data_.begin(), data_.end(), value);
}

Vector
Matrix::row(Index r) const
{
    HIMA_ASSERT(r < rows_, "row %zu out of range %zu", r, rows_);
    Vector v(cols_);
    for (Index c = 0; c < cols_; ++c)
        v[c] = data_[r * cols_ + c];
    return v;
}

void
Matrix::setRow(Index r, const Vector &v)
{
    HIMA_ASSERT(r < rows_, "row %zu out of range %zu", r, rows_);
    HIMA_ASSERT(v.size() == cols_, "row length %zu != cols %zu",
                v.size(), cols_);
    for (Index c = 0; c < cols_; ++c)
        data_[r * cols_ + c] = v[c];
}

namespace {

void
checkSameSize(const Vector &a, const Vector &b, const char *op)
{
    HIMA_ASSERT(a.size() == b.size(), "%s: size mismatch %zu vs %zu",
                op, a.size(), b.size());
}

void
checkSameShape(const Matrix &a, const Matrix &b, const char *op)
{
    HIMA_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
                "%s: shape mismatch (%zu,%zu) vs (%zu,%zu)",
                op, a.rows(), a.cols(), b.rows(), b.cols());
}

} // namespace

void
addInto(const Vector &a, const Vector &b, Vector &out)
{
    checkSameSize(a, b, "addInto");
    const Index n = a.size();
    out.resize(n);
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real *po = out.data();
    for (Index i = 0; i < n; ++i)
        po[i] = pa[i] + pb[i];
}

void
subInto(const Vector &a, const Vector &b, Vector &out)
{
    checkSameSize(a, b, "subInto");
    const Index n = a.size();
    out.resize(n);
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real *po = out.data();
    for (Index i = 0; i < n; ++i)
        po[i] = pa[i] - pb[i];
}

void
mulInto(const Vector &a, const Vector &b, Vector &out)
{
    checkSameSize(a, b, "mulInto");
    const Index n = a.size();
    out.resize(n);
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real *po = out.data();
    for (Index i = 0; i < n; ++i)
        po[i] = pa[i] * pb[i];
}

void
addInPlace(Vector &a, const Vector &b)
{
    checkSameSize(a, b, "addInPlace");
    Real *pa = a.data();
    const Real *pb = b.data();
    for (Index i = 0, n = a.size(); i < n; ++i)
        pa[i] += pb[i];
}

void
scaleInPlace(Vector &a, Real s)
{
    Real *pa = a.data();
    for (Index i = 0, n = a.size(); i < n; ++i)
        pa[i] *= s;
}

void
axpy(Real alpha, const Vector &x, Vector &y)
{
    checkSameSize(x, y, "axpy");
    const Real *px = x.data();
    Real *py = y.data();
    for (Index i = 0, n = x.size(); i < n; ++i)
        py[i] += alpha * px[i];
}

void
matVecInto(const Matrix &m, const Vector &x, Vector &y)
{
    HIMA_ASSERT(m.cols() == x.size(), "matVecInto: cols %zu != x %zu",
                m.cols(), x.size());
    const Index rows = m.rows();
    const Index cols = m.cols();
    y.resize(rows);
    const Real *pm = m.data();
    const Real *px = x.data();
    Real *py = y.data();
    for (Index r = 0; r < rows; ++r) {
        const Real *row = pm + r * cols;
        Real acc = 0.0;
        for (Index c = 0; c < cols; ++c)
            acc += row[c] * px[c];
        py[r] = acc;
    }
}

void
matVecAccumulate(const Matrix &m, const Vector &x, Vector &y)
{
    HIMA_ASSERT(m.cols() == x.size(), "matVecAccumulate: cols %zu != x %zu",
                m.cols(), x.size());
    HIMA_ASSERT(m.rows() == y.size(), "matVecAccumulate: rows %zu != y %zu",
                m.rows(), y.size());
    const Index rows = m.rows();
    const Index cols = m.cols();
    const Real *pm = m.data();
    const Real *px = x.data();
    Real *py = y.data();
    for (Index r = 0; r < rows; ++r) {
        const Real *row = pm + r * cols;
        Real acc = 0.0;
        for (Index c = 0; c < cols; ++c)
            acc += row[c] * px[c];
        py[r] += acc;
    }
}

void
matTVecInto(const Matrix &m, const Vector &x, Vector &y)
{
    HIMA_ASSERT(m.rows() == x.size(), "matTVecInto: rows %zu != x %zu",
                m.rows(), x.size());
    const Index rows = m.rows();
    const Index cols = m.cols();
    y.resize(cols);
    const Real *pm = m.data();
    const Real *px = x.data();
    Real *py = y.data();
    for (Index c = 0; c < cols; ++c)
        py[c] = 0.0;
    for (Index r = 0; r < rows; ++r) {
        const Real xv = px[r];
        const Real *row = pm + r * cols;
        for (Index c = 0; c < cols; ++c)
            py[c] += row[c] * xv;
    }
}

Index
matTVecSparseInto(const Matrix &m, const Vector &x, const Vector &rowGate,
                  Real threshold, Vector &y)
{
    HIMA_ASSERT(m.rows() == x.size(), "matTVecSparseInto: rows %zu != x %zu",
                m.rows(), x.size());
    HIMA_ASSERT(rowGate.size() == m.rows(),
                "matTVecSparseInto: gate %zu != rows %zu", rowGate.size(),
                m.rows());
    const Index rows = m.rows();
    const Index cols = m.cols();
    y.resize(cols);
    const Real *pm = m.data();
    const Real *px = x.data();
    const Real *pg = rowGate.data();
    Real *py = y.data();
    for (Index c = 0; c < cols; ++c)
        py[c] = 0.0;
    Index skipped = 0;
    for (Index r = 0; r < rows; ++r) {
        if (pg[r] <= threshold) {
            ++skipped;
            continue;
        }
        const Real xv = px[r];
        const Real *row = pm + r * cols;
        for (Index c = 0; c < cols; ++c)
            py[c] += row[c] * xv;
    }
    return skipped;
}

namespace {

/** y[c] += r0[c]*b0, then r1[c]*b1, r2[c]*b2, r3[c]*b3: rows ascending. */
inline void
addFourRows(Real *__restrict y, const Real *__restrict r0,
            const Real *__restrict r1, const Real *__restrict r2,
            const Real *__restrict r3, Real b0, Real b1, Real b2, Real b3,
            Index cols)
{
    for (Index c = 0; c < cols; ++c) {
        Real a = y[c];
        a += r0[c] * b0;
        a += r1[c] * b1;
        a += r2[c] * b2;
        a += r3[c] * b3;
        y[c] = a;
    }
}

} // namespace

Index
matTVecHeadsSparseInto(const Matrix &m, const std::vector<Vector> &xs,
                       const Vector &rowGate, Real threshold,
                       std::vector<Vector> &ys)
{
    const Index heads = xs.size();
    const Index rows = m.rows();
    const Index cols = m.cols();
    HIMA_ASSERT(ys.size() == heads, "matTVecHeadsSparseInto: %zu outputs "
                "for %zu heads", ys.size(), heads);
    HIMA_ASSERT(rowGate.size() == rows,
                "matTVecHeadsSparseInto: gate %zu != rows %zu",
                rowGate.size(), rows);
    for (Index h = 0; h < heads; ++h) {
        HIMA_ASSERT(xs[h].size() == rows,
                    "matTVecHeadsSparseInto: rows %zu != x %zu", rows,
                    xs[h].size());
        ys[h].resize(cols);
        ys[h].fill(0.0);
    }
    const Real *pm = m.data();
    const Real *pg = rowGate.data();
    Index skipped = 0;
    // Visited rows go four at a time (consecutive among the visited, not
    // necessarily adjacent in M): the four rows stay in L1 while every
    // head folds them in, and each output word is loaded and stored
    // once per four rows instead of once per row.
    Index r = 0;
    for (;;) {
        Index block[4];
        Index k = 0;
        for (; r < rows && k < 4; ++r) {
            if (pg[r] <= threshold)
                ++skipped;
            else
                block[k++] = r;
        }
        if (k == 4) {
            const Real *r0 = pm + block[0] * cols;
            const Real *r1 = pm + block[1] * cols;
            const Real *r2 = pm + block[2] * cols;
            const Real *r3 = pm + block[3] * cols;
            for (Index h = 0; h < heads; ++h) {
                const Real *px = xs[h].data();
                addFourRows(ys[h].data(), r0, r1, r2, r3, px[block[0]],
                            px[block[1]], px[block[2]], px[block[3]], cols);
            }
            continue;
        }
        for (Index j = 0; j < k; ++j) {
            const Real *row = pm + block[j] * cols;
            for (Index h = 0; h < heads; ++h) {
                const Real xv = xs[h][block[j]];
                Real *py = ys[h].data();
                for (Index c = 0; c < cols; ++c)
                    py[c] += row[c] * xv;
            }
        }
        return skipped;
    }
}

void
outerAccumulate(const Vector &a, const Vector &b, Real s, Matrix &m)
{
    HIMA_ASSERT(m.rows() == a.size() && m.cols() == b.size(),
                "outerAccumulate: shape (%zu,%zu) != (%zu,%zu)",
                m.rows(), m.cols(), a.size(), b.size());
    const Index rows = a.size();
    const Index cols = b.size();
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real *pm = m.data();
    for (Index r = 0; r < rows; ++r) {
        const Real av = s * pa[r];
        if (av == 0.0)
            continue;
        Real *row = pm + r * cols;
        for (Index c = 0; c < cols; ++c)
            row[c] += av * pb[c];
    }
}

void
matMulInto(const Matrix &a, const Matrix &b, Matrix &out)
{
    HIMA_ASSERT(a.cols() == b.rows(), "matMulInto: inner dims %zu vs %zu",
                a.cols(), b.rows());
    out.resize(a.rows(), b.cols());
    out.fill(0.0);
    const Index rows = a.rows();
    const Index inner = a.cols();
    const Index cols = b.cols();
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real *po = out.data();
    for (Index r = 0; r < rows; ++r) {
        Real *orow = po + r * cols;
        const Real *arow = pa + r * inner;
        for (Index k = 0; k < inner; ++k) {
            const Real av = arow[k];
            if (av == 0.0)
                continue;
            const Real *brow = pb + k * cols;
            for (Index c = 0; c < cols; ++c)
                orow[c] += av * brow[c];
        }
    }
}

void
laneBroadcastAdd(const Vector &bias, Index laneStride, Index activeLanes,
                 Vector &y)
{
    HIMA_ASSERT(bias.size() * laneStride == y.size(),
                "laneBroadcastAdd: bias %zu * stride %zu != y %zu",
                bias.size(), laneStride, y.size());
    HIMA_ASSERT(activeLanes >= 1 && activeLanes <= laneStride,
                "laneBroadcastAdd: active lanes %zu outside [1, %zu]",
                activeLanes, laneStride);
    const Real *pb = bias.data();
    Real *py = y.data();
    for (Index r = 0, n = bias.size(); r < n; ++r) {
        const Real bv = pb[r];
        Real *yl = py + r * laneStride;
        for (Index b = 0; b < activeLanes; ++b)
            yl[b] += bv;
    }
}

void
laneBroadcastAdd(const Vector &bias, Index lanes, Vector &y)
{
    laneBroadcastAdd(bias, lanes, lanes, y);
}

void
laneGatherInto(const Vector &soa, Index lanes, Index lane, Index count,
               Vector &out)
{
    HIMA_ASSERT(lane < lanes, "laneGatherInto: lane %zu >= %zu", lane, lanes);
    HIMA_ASSERT(count * lanes <= soa.size(),
                "laneGatherInto: count %zu * lanes %zu > soa %zu",
                count, lanes, soa.size());
    out.resize(count);
    const Real *ps = soa.data() + lane;
    Real *po = out.data();
    for (Index k = 0; k < count; ++k)
        po[k] = ps[k * lanes];
}

void
laneScatterInto(const Vector &v, Index lanes, Index lane, Vector &soa,
                Index rowOffset)
{
    HIMA_ASSERT(lane < lanes, "laneScatterInto: lane %zu >= %zu", lane, lanes);
    HIMA_ASSERT((rowOffset + v.size()) * lanes <= soa.size(),
                "laneScatterInto: (%zu + %zu) * lanes %zu > soa %zu",
                rowOffset, v.size(), lanes, soa.size());
    const Real *pv = v.data();
    Real *ps = soa.data() + rowOffset * lanes + lane;
    for (Index k = 0, n = v.size(); k < n; ++k)
        ps[k * lanes] = pv[k];
}

void
laneAxpy(Real alpha, const Vector &x, Index lanes, Index lane, Vector &y)
{
    HIMA_ASSERT(lane < lanes, "laneAxpy: lane %zu >= %zu", lane, lanes);
    HIMA_ASSERT(x.size() * lanes <= y.size(),
                "laneAxpy: x %zu * lanes %zu > y %zu",
                x.size(), lanes, y.size());
    const Real *px = x.data();
    Real *py = y.data() + lane;
    for (Index k = 0, n = x.size(); k < n; ++k)
        py[k * lanes] += alpha * px[k];
}

Real
dotRow(const Matrix &m, Index r, const Vector &x)
{
    HIMA_ASSERT(m.cols() == x.size(), "dotRow: cols %zu != x %zu",
                m.cols(), x.size());
    const Real *row = m.rowPtr(r);
    const Real *px = x.data();
    Real acc = 0.0;
    for (Index c = 0, w = m.cols(); c < w; ++c)
        acc += row[c] * px[c];
    return acc;
}

Real
rowNorm(const Matrix &m, Index r)
{
    const Real *row = m.rowPtr(r);
    Real acc = 0.0;
    for (Index c = 0, w = m.cols(); c < w; ++c)
        acc += row[c] * row[c];
    return std::sqrt(acc);
}

Vector
add(const Vector &a, const Vector &b)
{
    Vector out;
    addInto(a, b, out);
    return out;
}

Vector
sub(const Vector &a, const Vector &b)
{
    Vector out;
    subInto(a, b, out);
    return out;
}

Vector
mul(const Vector &a, const Vector &b)
{
    Vector out;
    mulInto(a, b, out);
    return out;
}

Vector
scale(const Vector &a, Real s)
{
    Vector out = a;
    scaleInPlace(out, s);
    return out;
}

Real
dot(const Vector &a, const Vector &b)
{
    checkSameSize(a, b, "dot");
    const Real *pa = a.data();
    const Real *pb = b.data();
    Real acc = 0.0;
    for (Index i = 0, n = a.size(); i < n; ++i)
        acc += pa[i] * pb[i];
    return acc;
}

Real
cosineSimilarity(const Vector &a, const Vector &b, Real eps)
{
    checkSameSize(a, b, "cosineSimilarity");
    return dot(a, b) / (a.norm() * b.norm() + eps);
}

Vector
matVec(const Matrix &m, const Vector &x)
{
    Vector y;
    matVecInto(m, x, y);
    return y;
}

Vector
matTVec(const Matrix &m, const Vector &x)
{
    Vector y;
    matTVecInto(m, x, y);
    return y;
}

Matrix
outer(const Vector &a, const Vector &b)
{
    Matrix m(a.size(), b.size());
    outerAccumulate(a, b, 1.0, m);
    return m;
}

Matrix
transpose(const Matrix &m)
{
    Matrix t(m.cols(), m.rows());
    for (Index r = 0; r < m.rows(); ++r)
        for (Index c = 0; c < m.cols(); ++c)
            t(c, r) = m(r, c);
    return t;
}

Matrix
add(const Matrix &a, const Matrix &b)
{
    checkSameShape(a, b, "add");
    Matrix out(a.rows(), a.cols());
    for (Index i = 0; i < a.size(); ++i)
        out.data()[i] = a.data()[i] + b.data()[i];
    return out;
}

Matrix
sub(const Matrix &a, const Matrix &b)
{
    checkSameShape(a, b, "sub");
    Matrix out(a.rows(), a.cols());
    for (Index i = 0; i < a.size(); ++i)
        out.data()[i] = a.data()[i] - b.data()[i];
    return out;
}

Matrix
mul(const Matrix &a, const Matrix &b)
{
    checkSameShape(a, b, "mul");
    Matrix out(a.rows(), a.cols());
    for (Index i = 0; i < a.size(); ++i)
        out.data()[i] = a.data()[i] * b.data()[i];
    return out;
}

Matrix
scale(const Matrix &a, Real s)
{
    Matrix out(a.rows(), a.cols());
    for (Index i = 0; i < a.size(); ++i)
        out.data()[i] = a.data()[i] * s;
    return out;
}

Matrix
matMul(const Matrix &a, const Matrix &b)
{
    Matrix out;
    matMulInto(a, b, out);
    return out;
}

} // namespace hima
