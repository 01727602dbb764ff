#include "smpi/types.h"

#include <cstring>

namespace smpi {

std::size_t datatype_size(Datatype t) {
  switch (t) {
    case Datatype::kByte: return 1;
    case Datatype::kChar: return 1;
    case Datatype::kInt: return sizeof(int);
    case Datatype::kLong: return sizeof(long);
    case Datatype::kFloat: return sizeof(float);
    case Datatype::kDouble: return sizeof(double);
  }
  return 1;
}

namespace {

template <typename T>
void combine(Op op, T* inout, const T* in, std::size_t n) {
  switch (op) {
    case Op::kSum:
      for (std::size_t i = 0; i < n; ++i) inout[i] = T(inout[i] + in[i]);
      return;
    case Op::kProd:
      for (std::size_t i = 0; i < n; ++i) inout[i] = T(inout[i] * in[i]);
      return;
    case Op::kMin:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = in[i] < inout[i] ? in[i] : inout[i];
      return;
    case Op::kMax:
      for (std::size_t i = 0; i < n; ++i)
        inout[i] = in[i] > inout[i] ? in[i] : inout[i];
      return;
    case Op::kLand:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < n; ++i)
          inout[i] = T((inout[i] != 0) && (in[i] != 0));
        return;
      }
      break;
    case Op::kLor:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < n; ++i)
          inout[i] = T((inout[i] != 0) || (in[i] != 0));
        return;
      }
      break;
    case Op::kBand:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < n; ++i) inout[i] = T(inout[i] & in[i]);
        return;
      }
      break;
    case Op::kBor:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < n; ++i) inout[i] = T(inout[i] | in[i]);
        return;
      }
      break;
    case Op::kBxor:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < n; ++i) inout[i] = T(inout[i] ^ in[i]);
        return;
      }
      break;
  }
  throw std::logic_error("smpi: logical/bitwise op on floating datatype");
}

}  // namespace

void apply_op(Op op, Datatype t, void* inout, const void* in,
              std::size_t count) {
  switch (t) {
    case Datatype::kByte:
    case Datatype::kChar:
      combine(op, static_cast<unsigned char*>(inout),
              static_cast<const unsigned char*>(in), count);
      return;
    case Datatype::kInt:
      combine(op, static_cast<int*>(inout), static_cast<const int*>(in),
              count);
      return;
    case Datatype::kLong:
      combine(op, static_cast<long*>(inout), static_cast<const long*>(in),
              count);
      return;
    case Datatype::kFloat:
      combine(op, static_cast<float*>(inout), static_cast<const float*>(in),
              count);
      return;
    case Datatype::kDouble:
      combine(op, static_cast<double*>(inout),
              static_cast<const double*>(in), count);
      return;
  }
}

}  // namespace smpi
