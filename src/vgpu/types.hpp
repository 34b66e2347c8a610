// Core value and geometry types shared by the vgpu simulator and the kcc
// compiler. Registers are 64-bit slots reinterpreted according to the static
// type carried by each instruction (as in PTX, where virtual registers are
// typed by the instruction that uses them). The value types, spaces and
// codecs themselves live in simt.hpp, the semantics both tiers share.
#pragma once

#include <cstdint>
#include <string>

#include "vgpu/simt.hpp"

namespace kspec::vgpu {

const char* TypeName(Type t);

// A 64-bit register slot. Helpers encode/decode typed values (simt.hpp).
union Slot {
  std::uint64_t raw;
  struct {
  } _;
};

struct Dim3 {
  unsigned x = 1, y = 1, z = 1;

  constexpr Dim3() = default;
  constexpr Dim3(unsigned x_, unsigned y_ = 1, unsigned z_ = 1) : x(x_), y(y_), z(z_) {}

  constexpr unsigned long long Count() const {
    return static_cast<unsigned long long>(x) * y * z;
  }
  bool operator==(const Dim3&) const = default;

  std::string ToString() const;
};

const char* SpaceName(Space s);

}  // namespace kspec::vgpu
